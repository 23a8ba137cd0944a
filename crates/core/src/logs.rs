//! Enclave packet logs and their authenticated export (§III-B, §V-A).
//!
//! Each enclave keeps two count-min sketches:
//! - **incoming, per source IP**: lets each neighbor AS verify that the
//!   packets it handed to the filtering network actually reached the
//!   filter (*drop-before-filter* detection);
//! - **outgoing, per 5-tuple**: lets the victim verify that exactly the
//!   allowed packets — no more, no fewer — were forwarded
//!   (*drop-after-filter* / *inject-after-filter* detection).
//!
//! Exports are HMAC-authenticated with a key known only to the enclave and
//! the verifier (established after remote attestation), so the untrusted
//! filtering network that relays them cannot tamper with or replay them
//! across rounds.
//!
//! # The batch/sequential equivalence contract
//!
//! [`PacketLogs::log_batch_fingerprints`] regroups a burst's log updates
//! around the prefetch-pipelined sketch path
//! ([`CountMinSketch::add_batch_fingerprints`]) — but the resulting
//! sketches, and therefore every [`export`](PacketLogs::export) payload and
//! tag, are **bit-identical** to logging the same packets one at a time
//! with [`log_incoming`](PacketLogs::log_incoming) /
//! [`log_outgoing`](PacketLogs::log_outgoing) in any order. Sketch counter
//! updates are commuting saturating sums, so neither burst boundaries nor
//! the enclave's regrouping of a burst by contract can leak into what a
//! verifier's comparison sees; the workspace property test
//! `burst_logging_audit_equivalence` pins the contract end to end
//! (byte-equal exports across the batch and sequential paths, for one
//! contract and for several).

use crate::filter::Verdict;
use crate::rules::RuleAction;
use crate::verify::BypassVerdict;
use vif_crypto::hmac::{constant_time_eq, HmacSha256};
use vif_dataplane::FiveTuple;
use vif_sketch::{
    compare, CompareError, CountMinSketch, SketchComparison, SketchConfig, SketchDecodeError,
};

/// The two per-packet log keys, fingerprinted once.
///
/// The audited hot path derives both values in a single pass over the
/// packet (one 13-byte encode, two fingerprints) and feeds every consumer
/// from them: RSS steering and the outgoing per-5-tuple log share
/// [`tuple`](PacketFingerprints::tuple)
/// ([`FiveTuple::tuple_fingerprint`]), the incoming per-source-IP log
/// takes [`src_ip`](PacketFingerprints::src_ip)
/// ([`FiveTuple::src_ip_fingerprint`]) — the paper's "4 linear hash
/// operations" are then genuinely the only per-packet hash work left
/// (§V-A). [`LogDirection::key`] picks a log's key out of the pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketFingerprints {
    /// Fingerprint of the big-endian source address (incoming log key).
    pub src_ip: u64,
    /// Fingerprint of the canonical 13-byte tuple encoding (outgoing log
    /// and steering key).
    pub tuple: u64,
}

impl PacketFingerprints {
    /// Derives both fingerprints for a packet (the fingerprint-once pass).
    #[inline]
    pub fn of(t: &FiveTuple) -> Self {
        PacketFingerprints {
            src_ip: t.src_ip_fingerprint(),
            tuple: t.tuple_fingerprint(),
        }
    }
}

/// Which log a sketch export covers — and the one place that says what a
/// direction means: which fingerprint keys its log
/// ([`key`](LogDirection::key)), which seed its sketch hashes with, and
/// which rule judges its audit (the [`crate::verify`] module table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogDirection {
    /// The incoming (pre-filter) per-source-IP log.
    Incoming,
    /// The outgoing (post-filter) per-5-tuple log.
    Outgoing,
}

impl LogDirection {
    /// Position of this direction's sketch in [`PacketLogs`] (and of its
    /// verifier wherever verifiers come in pairs): declaration order.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    fn tag_byte(self) -> u8 {
        match self {
            LogDirection::Incoming => 0x01,
            LogDirection::Outgoing => 0x02,
        }
    }

    /// This log's key among a packet's fingerprints: the source IP for the
    /// incoming log, the 5-tuple for the outgoing one.
    #[inline]
    pub fn key(self, fp: &PacketFingerprints) -> u64 {
        match self {
            LogDirection::Incoming => fp.src_ip,
            LogDirection::Outgoing => fp.tuple,
        }
    }

    /// This log's sketch configuration for a session seed.
    pub(crate) fn config(self, seed: u64) -> SketchConfig {
        match self {
            LogDirection::Incoming => PacketLogs::incoming_config(seed),
            LogDirection::Outgoing => PacketLogs::outgoing_config(seed),
        }
    }

    /// The audit rule: compares the enclave's log of this direction with a
    /// verifier's local sketch. The outgoing log is the reference and both
    /// drops and injections count; for the incoming log the neighbor's
    /// sketch is the reference and only drops count (module
    /// [`crate::verify`]).
    pub(crate) fn judge(
        self,
        enclave: &CountMinSketch,
        local: &CountMinSketch,
        tolerance: u64,
    ) -> Result<(SketchComparison, BypassVerdict), CompareError> {
        let comparison = match self {
            LogDirection::Outgoing => compare(enclave, local)?,
            LogDirection::Incoming => compare(local, enclave)?,
        };
        let dropped = comparison.drop_detected(tolerance);
        let injected = self == LogDirection::Outgoing && comparison.injection_detected(tolerance);
        let verdict = match (dropped, injected) {
            (false, false) => BypassVerdict::Clean,
            (true, false) => BypassVerdict::DropDetected,
            (false, true) => BypassVerdict::InjectionDetected,
            (true, true) => BypassVerdict::DropAndInjectionDetected,
        };
        Ok((comparison, verdict))
    }
}

/// Errors from verifying an exported log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogError {
    /// HMAC verification failed: forged or corrupted export.
    BadTag,
    /// The sketch payload failed to decode.
    Malformed(SketchDecodeError),
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::BadTag => write!(f, "log authentication failed"),
            LogError::Malformed(e) => write!(f, "malformed log payload: {e}"),
        }
    }
}

impl std::error::Error for LogError {}

/// An authenticated sketch export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthenticatedSketch {
    /// Which log this is.
    pub direction: LogDirection,
    /// Filtering round the log covers.
    pub round: u64,
    /// Encoded sketch bytes ([`CountMinSketch::encode`]).
    pub payload: Vec<u8>,
    /// HMAC over direction ‖ round ‖ payload.
    pub tag: [u8; 32],
}

impl AuthenticatedSketch {
    /// HMAC over `direction ‖ round ‖ payload`, streamed: the header and
    /// the ~1 MB sketch payload are absorbed directly by the hasher — no
    /// concatenated copy of the payload is materialized on either the
    /// export or the verify side.
    fn mac_over(key: &[u8; 32], direction: LogDirection, round: u64, payload: &[u8]) -> [u8; 32] {
        let mut h = HmacSha256::new(key);
        h.update(&[direction.tag_byte()]);
        h.update(&round.to_le_bytes());
        h.update(payload);
        h.finalize()
    }

    /// Verifies the export and decodes the sketch.
    ///
    /// # Errors
    ///
    /// [`LogError::BadTag`] on authentication failure;
    /// [`LogError::Malformed`] if the payload is not a valid sketch.
    pub fn verify(&self, key: &[u8; 32]) -> Result<CountMinSketch, LogError> {
        let expected = Self::mac_over(key, self.direction, self.round, &self.payload);
        if !constant_time_eq(&expected, &self.tag) {
            return Err(LogError::BadTag);
        }
        CountMinSketch::decode(&self.payload).map_err(LogError::Malformed)
    }
}

/// The in-enclave packet logs: one sketch per [`LogDirection`].
///
/// Burst callers use
/// [`log_batch_fingerprints`](PacketLogs::log_batch_fingerprints); the
/// per-packet [`log_incoming`](PacketLogs::log_incoming) /
/// [`log_outgoing`](PacketLogs::log_outgoing) pair is the sequential
/// oracle the batch path is property-tested bit-identical to (module
/// docs: the batch/sequential equivalence contract).
#[derive(Debug, Clone)]
pub struct PacketLogs {
    /// The incoming and outgoing sketches, indexed by
    /// [`LogDirection::index`].
    sketches: [CountMinSketch; 2],
    round: u64,
    /// Reused per-burst key buffers, indexed like `sketches` — at steady
    /// state the burst path allocates nothing.
    keys: [Vec<u64>; 2],
}

impl PacketLogs {
    /// Creates logs with the paper's sketch configuration (2 rows × 64 K
    /// bins × 64-bit counters ≈ 1 MB per sketch). `seed` must be shared
    /// with verifiers so all parties hash identically.
    pub fn new(seed: u64) -> Self {
        PacketLogs {
            sketches: [LogDirection::Incoming, LogDirection::Outgoing]
                .map(|d| CountMinSketch::new(d.config(seed))),
            round: 0,
            keys: [Vec::new(), Vec::new()],
        }
    }

    /// The incoming (per-source-IP) sketch configuration for a session
    /// seed — verifiers must build their local sketches with this.
    pub fn incoming_config(seed: u64) -> SketchConfig {
        SketchConfig::paper_default(seed)
    }

    /// The outgoing (per-5-tuple) sketch configuration for a session seed.
    pub fn outgoing_config(seed: u64) -> SketchConfig {
        SketchConfig::paper_default(seed ^ 0x5a5a)
    }

    /// The current filtering round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Enclave memory held by the two sketches (≈2 MB with paper config).
    pub fn memory_bytes(&self) -> usize {
        self.sketches.iter().map(CountMinSketch::memory_bytes).sum()
    }

    /// Logs an incoming packet (before filtering) under its source IP.
    #[inline]
    pub fn log_incoming(&mut self, t: &FiveTuple) {
        self.log_one(LogDirection::Incoming, t);
    }

    /// Logs a forwarded packet (after an ALLOW verdict) under its 5-tuple.
    #[inline]
    pub fn log_outgoing(&mut self, t: &FiveTuple) {
        self.log_one(LogDirection::Outgoing, t);
    }

    #[inline]
    fn log_one(&mut self, direction: LogDirection, t: &FiveTuple) {
        self.sketches[direction.index()]
            .add_fingerprint(direction.key(&PacketFingerprints::of(t)), 1);
    }

    /// Logs a whole burst from its pre-computed [`PacketFingerprints`]:
    /// every packet into the incoming log, the ALLOW-verdicted ones into
    /// the outgoing log — exactly what per-packet
    /// [`log_incoming`](PacketLogs::log_incoming) +
    /// [`log_outgoing`](PacketLogs::log_outgoing) over the same packets
    /// produces, bit for bit (module docs), but through the
    /// prefetch-pipelined sketch burst path and without re-hashing a
    /// packet.
    ///
    /// # Panics
    ///
    /// Panics if the slices' lengths differ.
    pub fn log_batch_fingerprints(&mut self, fps: &[PacketFingerprints], verdicts: &[Verdict]) {
        assert_eq!(fps.len(), verdicts.len(), "one verdict per packet");
        self.log_keys(
            LogDirection::Incoming,
            fps.iter().map(|f| LogDirection::Incoming.key(f)),
        );
        self.log_keys(
            LogDirection::Outgoing,
            fps.iter()
                .zip(verdicts)
                .filter(|(_, v)| v.action == RuleAction::Allow)
                .map(|(f, _)| LogDirection::Outgoing.key(f)),
        );
    }

    /// Adds a burst's keys to one log through its reused key buffer.
    fn log_keys(&mut self, direction: LogDirection, keys: impl Iterator<Item = u64>) {
        let buf = &mut self.keys[direction.index()];
        buf.clear();
        buf.extend(keys);
        self.sketches[direction.index()].add_batch_fingerprints(buf, 1);
    }

    /// Read access to one log's sketch (tests/verification).
    pub fn sketch(&self, direction: LogDirection) -> &CountMinSketch {
        &self.sketches[direction.index()]
    }

    /// Exports one log with authentication. The tag is streamed over the
    /// header and payload (`AuthenticatedSketch::mac_over`) — the only
    /// payload-sized buffer built here is the encoded sketch itself.
    pub fn export(&self, direction: LogDirection, key: &[u8; 32]) -> AuthenticatedSketch {
        let payload = self.sketch(direction).encode();
        let tag = AuthenticatedSketch::mac_over(key, direction, self.round, &payload);
        AuthenticatedSketch {
            direction,
            round: self.round,
            payload,
            tag,
        }
    }

    /// Starts a new filtering round: clears both sketches and bumps the
    /// round counter (§III-B: short rounds let victims abort quickly).
    pub fn new_round(&mut self) {
        for sketch in &mut self.sketches {
            sketch.clear();
        }
        self.round += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vif_dataplane::Protocol;

    fn tuple(i: u32) -> FiveTuple {
        FiveTuple::new(i, 42, 1, 2, Protocol::Udp)
    }

    fn key() -> [u8; 32] {
        [0xAB; 32]
    }

    /// Per row: the bin of a sketch that holds one packet.
    fn bins(sketch: &CountMinSketch) -> Vec<usize> {
        sketch
            .counters()
            .chunks(sketch.config().width)
            .map(|row| row.iter().position(|&c| c == 1).expect("one packet"))
            .collect()
    }

    #[test]
    fn both_sketches_hash_with_the_session_seed() {
        // A sketch hashed with a fixed seed lets the host aim packets at
        // bins it can predict; each direction must follow the seed.
        let t = tuple(0x0a00_0001);
        let [a, b] = [7u64, 8].map(|seed| {
            let mut logs = PacketLogs::new(seed);
            logs.log_incoming(&t);
            logs.log_outgoing(&t);
            logs
        });
        for d in [LogDirection::Incoming, LogDirection::Outgoing] {
            let (in_a, in_b) = (bins(a.sketch(d)), bins(b.sketch(d)));
            assert_eq!(in_a.len(), a.sketch(d).config().depth);
            for (row, (x, y)) in in_a.iter().zip(&in_b).enumerate() {
                assert_ne!(x, y, "{d:?} row {row}: the seed does not move the bin");
            }
        }
    }

    #[test]
    fn export_verify_roundtrip() {
        let mut logs = PacketLogs::new(7);
        for i in 0..100 {
            logs.log_incoming(&tuple(i));
            logs.log_outgoing(&tuple(i));
        }
        for dir in [LogDirection::Incoming, LogDirection::Outgoing] {
            let export = logs.export(dir, &key());
            let sketch = export.verify(&key()).unwrap();
            assert_eq!(sketch.total(), 100);
        }
    }

    #[test]
    fn tampered_payload_rejected() {
        let logs = PacketLogs::new(7);
        let mut export = logs.export(LogDirection::Outgoing, &key());
        export.payload[40] ^= 1;
        assert_eq!(export.verify(&key()), Err(LogError::BadTag));
    }

    #[test]
    fn cross_round_replay_rejected() {
        let mut logs = PacketLogs::new(7);
        logs.log_outgoing(&tuple(1));
        let old = logs.export(LogDirection::Outgoing, &key());
        logs.new_round();
        // Host replays the round-0 export claiming it is round 1.
        let mut replayed = old.clone();
        replayed.round = 1;
        assert_eq!(replayed.verify(&key()), Err(LogError::BadTag));
        // The original (round 0) still verifies as round 0.
        assert!(old.verify(&key()).is_ok());
    }

    #[test]
    fn direction_confusion_rejected() {
        let mut logs = PacketLogs::new(7);
        logs.log_incoming(&tuple(1));
        let export = logs.export(LogDirection::Incoming, &key());
        let mut confused = export.clone();
        confused.direction = LogDirection::Outgoing;
        assert_eq!(confused.verify(&key()), Err(LogError::BadTag));
    }

    #[test]
    fn wrong_key_rejected() {
        let logs = PacketLogs::new(7);
        let export = logs.export(LogDirection::Incoming, &key());
        assert_eq!(export.verify(&[0u8; 32]), Err(LogError::BadTag));
    }

    #[test]
    fn new_round_clears() {
        let mut logs = PacketLogs::new(7);
        logs.log_incoming(&tuple(1));
        logs.log_outgoing(&tuple(1));
        logs.new_round();
        assert_eq!(logs.sketch(LogDirection::Incoming).total(), 0);
        assert_eq!(logs.sketch(LogDirection::Outgoing).total(), 0);
        assert_eq!(logs.round(), 1);
    }

    #[test]
    fn incoming_keyed_by_source_ip() {
        let mut logs = PacketLogs::new(7);
        // Two flows from the same source IP: incoming log counts them
        // under one key.
        let a = FiveTuple::new(9, 42, 1, 2, Protocol::Udp);
        let b = FiveTuple::new(9, 42, 3, 4, Protocol::Tcp);
        logs.log_incoming(&a);
        logs.log_incoming(&b);
        assert_eq!(
            logs.sketch(LogDirection::Incoming)
                .estimate(&9u32.to_be_bytes()),
            2
        );
    }

    #[test]
    fn streamed_tag_matches_concatenated_reference() {
        // Regression for the zero-copy export: the streaming HMAC must
        // produce exactly the tag of the original implementation, which
        // MACed one contiguous `direction ‖ round ‖ payload` buffer —
        // existing verifiers would reject anything else.
        let mut logs = PacketLogs::new(3);
        for i in 0..50 {
            logs.log_incoming(&tuple(i));
            logs.log_outgoing(&tuple(i));
        }
        logs.new_round(); // non-zero round in the MAC input
        logs.log_outgoing(&tuple(99));
        for dir in [LogDirection::Incoming, LogDirection::Outgoing] {
            let export = logs.export(dir, &key());
            let mut concat = Vec::with_capacity(9 + export.payload.len());
            concat.push(match dir {
                LogDirection::Incoming => 0x01,
                LogDirection::Outgoing => 0x02,
            });
            concat.extend_from_slice(&export.round.to_le_bytes());
            concat.extend_from_slice(&export.payload);
            assert_eq!(export.tag, HmacSha256::mac(&key(), &concat));
            assert!(export.verify(&key()).is_ok());
        }
    }

    #[test]
    fn export_tag_known_answer() {
        // "Byte-identical exports" rests on this constant, not on two
        // paths agreeing with each other: seed 7, round 1, 100 tuples
        // logged both ways, key 0xAB…AB.
        let mut logs = PacketLogs::new(7);
        logs.new_round();
        for i in 0..100 {
            logs.log_incoming(&tuple(i));
            logs.log_outgoing(&tuple(i));
        }
        let export = logs.export(LogDirection::Outgoing, &key());
        assert_eq!(export.round, 1);
        assert_eq!(
            vif_crypto::hex::encode(&export.tag),
            "9ab181adc9c1c0a40f094a6db20cae86cda5798d0bfcc778732d6fd1552dc13c"
        );
        assert!(export.verify(&key()).is_ok());
    }

    #[test]
    fn log_batch_equals_sequential_logging() {
        use crate::filter::DecisionPath;
        let verdict = |action| Verdict {
            action,
            rule: None,
            path: DecisionPath::Default,
        };
        let tuples: Vec<FiveTuple> = (0..100).map(tuple).collect();
        let verdicts: Vec<Verdict> = (0..100)
            .map(|i| {
                verdict(if i % 3 == 0 {
                    RuleAction::Drop
                } else {
                    RuleAction::Allow
                })
            })
            .collect();
        let mut fp_batched = PacketLogs::new(7);
        let fps: Vec<PacketFingerprints> = tuples.iter().map(PacketFingerprints::of).collect();
        fp_batched.log_batch_fingerprints(&fps, &verdicts);
        let mut sequential = PacketLogs::new(7);
        for (t, v) in tuples.iter().zip(&verdicts) {
            sequential.log_incoming(t);
            if v.action == RuleAction::Allow {
                sequential.log_outgoing(t);
            }
        }
        for dir in [LogDirection::Incoming, LogDirection::Outgoing] {
            let want = sequential.export(dir, &key());
            assert_eq!(fp_batched.export(dir, &key()), want);
        }
    }

    #[test]
    fn memory_about_two_megabytes() {
        let logs = PacketLogs::new(1);
        let mb = logs.memory_bytes() as f64 / (1 << 20) as f64;
        assert!((1.9..2.1).contains(&mb), "{mb} MB");
    }
}
