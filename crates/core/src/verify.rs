//! Bypass detection by the victim network and neighbor ASes (§III-B).
//!
//! A [`Verifier`] builds a local sketch over the traffic it observes with
//! the same seeded hash family as the enclave, and audits the enclave's
//! authenticated log of its [`LogDirection`] against it. One verifier per
//! direction; the direction decides everything else
//! ([`LogDirection::key`] and the audit rule):
//!
//! | direction | held by  | local stream        | log key   | reference     | counts               | detects                    |
//! |-----------|----------|---------------------|-----------|---------------|----------------------|----------------------------|
//! | outgoing  | victim   | packets received    | 5-tuple   | enclave's log | drops and injections | drop-after / inject-after  |
//! | incoming  | neighbor | packets handed over | source IP | neighbor's    | drops only           | drop-before                |
//!
//! The incoming log also counts other neighbors' traffic, so a neighbor
//! treats only *missing* packets as evidence.

use crate::logs::{AuthenticatedSketch, LogDirection, LogError, PacketFingerprints};
use vif_dataplane::FiveTuple;
use vif_sketch::{CompareError, CountMinSketch, SketchComparison};

/// Outcome of a sketch audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BypassVerdict {
    /// Counters matched (within tolerance): no bypass.
    Clean,
    /// Packets the enclave logged never arrived: *drop-after-filter*
    /// (victim) or *drop-before-filter* (neighbor).
    DropDetected,
    /// Packets arrived that the enclave never logged:
    /// *inject-after-filter*.
    InjectionDetected,
    /// Both directions diverged.
    DropAndInjectionDetected,
}

/// A completed audit: verdict plus the underlying comparison.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// The verdict at the configured tolerance.
    pub verdict: BypassVerdict,
    /// Bin-level comparison detail.
    pub comparison: SketchComparison,
}

impl AuditReport {
    /// True if any bypass was detected.
    pub fn bypass_detected(&self) -> bool {
        self.verdict != BypassVerdict::Clean
    }
}

/// Errors during an audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditError {
    /// The export failed authentication or its header did not parse.
    Log(LogError),
    /// The exported sketch is incomparable with the local one
    /// (mismatched dimensions or hash seed), or either sketch counted more
    /// than its 32-bit counters hold.
    Compare(CompareError),
    /// The export covers a different direction than this verifier audits.
    WrongDirection,
    /// The export is authentic but covers another round than the one this
    /// verifier observed: a replayed or withheld log.
    Stale {
        /// The round this verifier observed.
        expected: u64,
        /// The round the export covers.
        got: u64,
    },
    /// The enclave never delivered an export within the round's audit
    /// window (fault-injected or real): there is nothing to audit, which
    /// is treated exactly like an unauditable export.
    ExportTimeout,
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::Log(e) => write!(f, "log error: {e}"),
            AuditError::Compare(e) => write!(f, "comparison error: {e}"),
            AuditError::WrongDirection => write!(f, "export direction mismatch"),
            AuditError::Stale { expected, got } => {
                write!(f, "stale export: round {got}, expected {expected}")
            }
            AuditError::ExportTimeout => write!(f, "audit export timed out"),
        }
    }
}

impl std::error::Error for AuditError {}

impl From<LogError> for AuditError {
    fn from(e: LogError) -> Self {
        AuditError::Log(e)
    }
}

impl From<CompareError> for AuditError {
    fn from(e: CompareError) -> Self {
        AuditError::Compare(e)
    }
}

/// One party's verifier for one log direction: the victim's
/// ([`LogDirection::Outgoing`]) or a neighbor AS's
/// ([`LogDirection::Incoming`]).
#[derive(Debug, Clone)]
pub struct Verifier {
    direction: LogDirection,
    local: CountMinSketch,
    /// The round `local` covers: 0 at the session's start, advanced by
    /// [`new_round`](Verifier::new_round) in step with the enclave's log.
    round: u64,
    audit_key: [u8; 32],
    /// Per-bin tolerance absorbing benign loss between the filter and the
    /// verifier (see §III-B's discussion of intermediate ASes).
    tolerance: u64,
}

impl Verifier {
    /// Creates a verifier of `direction`'s log. `sketch_seed` and
    /// `audit_key` come from the attested session; `tolerance` is the
    /// per-bin slack.
    pub fn new(
        direction: LogDirection,
        sketch_seed: u64,
        audit_key: [u8; 32],
        tolerance: u64,
    ) -> Self {
        Verifier {
            direction,
            local: CountMinSketch::new(direction.config(sketch_seed)),
            round: 0,
            audit_key,
            tolerance,
        }
    }

    /// Records one packet: received from the filtering network (victim) or
    /// handed to it (neighbor).
    pub fn observe(&mut self, t: &FiveTuple) {
        self.observe_fingerprint(self.direction.key(&PacketFingerprints::of(t)));
    }

    /// [`observe`](Verifier::observe) with the packet's pre-computed log
    /// key ([`LogDirection::key`] of its [`PacketFingerprints`]) —
    /// verifiers attribute packets to slices with the tuple fingerprint
    /// ([`vif_dataplane::shard_of_fingerprint`]), so the fingerprint-once
    /// pass hashes each observed packet exactly once.
    #[inline]
    pub fn observe_fingerprint(&mut self, key: u64) {
        self.local.add_fingerprint(key, 1);
    }

    /// Audits the enclave's log of this verifier's direction against the
    /// local observations: checks the tag over the payload as received,
    /// checks that the export covers the round this verifier observed,
    /// reads the header, and compares the counters straight out of the
    /// payload with the local sketch in one pass. Allocates nothing
    /// unless some bin differs.
    ///
    /// # Errors
    ///
    /// See [`AuditError`]; an export of the other direction is
    /// [`AuditError::WrongDirection`], an authentic export of another
    /// round [`AuditError::Stale`].
    pub fn audit(&self, export: &AuthenticatedSketch) -> Result<AuditReport, AuditError> {
        if export.direction != self.direction {
            return Err(AuditError::WrongDirection);
        }
        let enclave = export.verify(&self.audit_key)?;
        if export.round != self.round {
            return Err(AuditError::Stale {
                expected: self.round,
                got: export.round,
            });
        }
        let (comparison, verdict) = self
            .direction
            .judge(&enclave, &self.local, self.tolerance)?;
        Ok(AuditReport {
            verdict,
            comparison,
        })
    }

    /// Clears local observations and expects the next round's export, as
    /// the enclave's log does when it rotates.
    pub fn new_round(&mut self) {
        self.local.clear();
        self.round += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logs::PacketLogs;
    use vif_dataplane::Protocol;

    const SEED: u64 = 77;
    const KEY: [u8; 32] = [5u8; 32];

    fn tuple(i: u32) -> FiveTuple {
        FiveTuple::new(0x0a000000 + i, 42, 1, 80, Protocol::Tcp)
    }

    #[test]
    fn honest_run_is_clean_for_both_verifiers() {
        let mut logs = PacketLogs::new(SEED);
        let mut victim = Verifier::new(LogDirection::Outgoing, SEED, KEY, 0);
        let mut neighbor = Verifier::new(LogDirection::Incoming, SEED, KEY, 0);
        for i in 0..500 {
            let t = tuple(i);
            neighbor.observe(&t);
            logs.log_incoming(&t);
            logs.log_outgoing(&t); // filter allows everything here
            victim.observe(&t);
        }
        let v = victim
            .audit(&logs.export(LogDirection::Outgoing, &KEY))
            .unwrap();
        assert_eq!(v.verdict, BypassVerdict::Clean);
        let n = neighbor
            .audit(&logs.export(LogDirection::Incoming, &KEY))
            .unwrap();
        assert_eq!(n.verdict, BypassVerdict::Clean);
    }

    #[test]
    fn drop_after_filter_detected_by_victim() {
        let mut logs = PacketLogs::new(SEED);
        let mut victim = Verifier::new(LogDirection::Outgoing, SEED, KEY, 0);
        for i in 0..100 {
            let t = tuple(i);
            logs.log_incoming(&t);
            logs.log_outgoing(&t);
            if i >= 20 {
                victim.observe(&t); // host silently dropped 20 packets
            }
        }
        let report = victim
            .audit(&logs.export(LogDirection::Outgoing, &KEY))
            .unwrap();
        assert_eq!(report.verdict, BypassVerdict::DropDetected);
        assert!(report.bypass_detected());
    }

    #[test]
    fn injection_after_filter_detected_by_victim() {
        let mut logs = PacketLogs::new(SEED);
        let mut victim = Verifier::new(LogDirection::Outgoing, SEED, KEY, 0);
        for i in 0..100 {
            let t = tuple(i);
            logs.log_incoming(&t);
            // Filter drops everything; logs no outgoing packets.
            let _ = t;
        }
        // Host injects the "dropped" packets anyway.
        for i in 0..100 {
            victim.observe(&tuple(i));
        }
        let report = victim
            .audit(&logs.export(LogDirection::Outgoing, &KEY))
            .unwrap();
        assert_eq!(report.verdict, BypassVerdict::InjectionDetected);
    }

    #[test]
    fn drop_and_injection_both_flagged() {
        let mut logs = PacketLogs::new(SEED);
        let mut victim = Verifier::new(LogDirection::Outgoing, SEED, KEY, 0);
        for i in 0..100 {
            let t = tuple(i);
            logs.log_incoming(&t);
            logs.log_outgoing(&t);
            if i < 50 {
                victim.observe(&t);
            }
        }
        victim.observe(&tuple(9999)); // injected flow
        let report = victim
            .audit(&logs.export(LogDirection::Outgoing, &KEY))
            .unwrap();
        assert_eq!(report.verdict, BypassVerdict::DropAndInjectionDetected);
    }

    #[test]
    fn drop_before_filter_detected_by_neighbor() {
        let mut logs = PacketLogs::new(SEED);
        let mut neighbor = Verifier::new(LogDirection::Incoming, SEED, KEY, 0);
        for i in 0..100 {
            let t = tuple(i);
            neighbor.observe(&t);
            // The filtering network drops 30 packets before the filter.
            if i >= 30 {
                logs.log_incoming(&t);
            }
        }
        let report = neighbor
            .audit(&logs.export(LogDirection::Incoming, &KEY))
            .unwrap();
        assert_eq!(report.verdict, BypassVerdict::DropDetected);
    }

    #[test]
    fn other_neighbors_traffic_not_flagged_as_injection() {
        let mut logs = PacketLogs::new(SEED);
        let mut neighbor = Verifier::new(LogDirection::Incoming, SEED, KEY, 0);
        for i in 0..50 {
            let t = tuple(i);
            neighbor.observe(&t);
            logs.log_incoming(&t);
        }
        // Another neighbor's traffic also reaches the filter.
        for i in 1000..1500 {
            logs.log_incoming(&tuple(i));
        }
        let report = neighbor
            .audit(&logs.export(LogDirection::Incoming, &KEY))
            .unwrap();
        assert_eq!(report.verdict, BypassVerdict::Clean);
    }

    #[test]
    fn tolerance_absorbs_benign_loss() {
        let mut logs = PacketLogs::new(SEED);
        let mut victim = Verifier::new(LogDirection::Outgoing, SEED, KEY, 2);
        for i in 0..1000 {
            let t = tuple(i);
            logs.log_outgoing(&t);
            if i % 400 != 0 {
                victim.observe(&t); // ~0.25% benign path loss
            }
        }
        let report = victim
            .audit(&logs.export(LogDirection::Outgoing, &KEY))
            .unwrap();
        assert_eq!(report.verdict, BypassVerdict::Clean);
    }

    #[test]
    fn replayed_export_of_an_earlier_round_is_stale() {
        let mut logs = PacketLogs::new(SEED);
        let mut victim = Verifier::new(LogDirection::Outgoing, SEED, KEY, 0);
        let mut neighbor = Verifier::new(LogDirection::Incoming, SEED, KEY, 0);
        let mut replay = None;
        // Round 0 carries flows 0..80; round 1 carries flows 0..100, all
        // past the filter, and the host drops 80..100 after it.
        for (round, flows) in [(0, 80), (1, 100)] {
            for i in 0..flows {
                let t = tuple(i);
                neighbor.observe(&t);
                logs.log_incoming(&t);
                logs.log_outgoing(&t);
                if i < 80 {
                    victim.observe(&t);
                }
            }
            if round == 0 {
                replay = Some(logs.export(LogDirection::Outgoing, &KEY));
                logs.new_round();
                victim.new_round();
                neighbor.new_round();
            }
        }
        let honest = logs.export(LogDirection::Outgoing, &KEY);
        assert_eq!(
            victim.audit(&honest).unwrap().verdict,
            BypassVerdict::DropDetected
        );
        let incoming = logs.export(LogDirection::Incoming, &KEY);
        assert_eq!(
            neighbor.audit(&incoming).unwrap().verdict,
            BypassVerdict::Clean
        );
        // Round 0's export holds exactly what the victim received in round
        // 1 and its tag checks out: only its round gives it away.
        let stale = AuditError::Stale {
            expected: 1,
            got: 0,
        };
        assert_eq!(victim.audit(&replay.unwrap()).unwrap_err(), stale);
    }

    #[test]
    fn wrong_direction_rejected() {
        let logs = PacketLogs::new(SEED);
        for (verifier, other) in [
            (LogDirection::Outgoing, LogDirection::Incoming),
            (LogDirection::Incoming, LogDirection::Outgoing),
        ] {
            let err = Verifier::new(verifier, SEED, KEY, 0)
                .audit(&logs.export(other, &KEY))
                .unwrap_err();
            assert_eq!(err, AuditError::WrongDirection);
        }
    }

    #[test]
    fn forged_export_rejected() {
        let mut logs = PacketLogs::new(SEED);
        logs.log_outgoing(&tuple(1));
        let victim = Verifier::new(LogDirection::Outgoing, SEED, KEY, 0);
        let mut export = logs.export(LogDirection::Outgoing, &KEY);
        export.payload[33] ^= 0xFF;
        assert!(matches!(
            victim.audit(&export),
            Err(AuditError::Log(LogError::BadTag))
        ));
    }

    #[test]
    fn seed_mismatch_incomparable() {
        let mut logs = PacketLogs::new(SEED);
        logs.log_outgoing(&tuple(1));
        let victim = Verifier::new(LogDirection::Outgoing, SEED + 1, KEY, 0);
        let export = logs.export(LogDirection::Outgoing, &KEY);
        assert!(matches!(
            victim.audit(&export),
            Err(AuditError::Compare(CompareError::ConfigMismatch))
        ));
    }
}
