//! The victim ↔ enclave session protocol (§VI-B).
//!
//! 1. The victim (RPKI-authenticated) asks the IXP controller for a filter;
//!    the controller launches an enclave from the open-source VIF image.
//! 2. **Remote attestation**: the victim sends a challenge nonce; the
//!    enclave generates a DH key pair *inside* the enclave and produces a
//!    quote whose report data binds `SHA-256(pubkey ‖ nonce)`; the IAS
//!    verifies the platform signature; the victim pins the expected
//!    measurement and checks the binding.
//! 3. **Channel**: both sides derive an authenticated channel and the
//!    audit key / sketch seed from the DH shared secret (HKDF).
//! 4. **Rules**: the victim submits encoded rules over the channel; the
//!    enclave authorizes them against RPKI and queues them, returning an
//!    authenticated acknowledgement. They take force at the next epoch
//!    publication, on every slice of the cluster at once.
//!
//! Every message travels through the *untrusted* filtering network; the
//! protocol treats it as the adversary it is (tampering any message aborts
//! the handshake).

use crate::enclave_app::{ContractId, FilterEnclaveApp};
use crate::logs::LogDirection;
use crate::rpki::{OwnerId, RpkiError, RpkiRegistry};
use crate::rules::{FilterRule, RuleDecodeError};
use crate::verify::Verifier;
use std::sync::Arc;
use vif_crypto::channel::{ChannelError, SecureChannel};
use vif_crypto::dh::{DhError, DhGroup, DhKeyPair};
use vif_crypto::kdf;
use vif_crypto::sha256::Sha256;
use vif_sgx::{
    AttestationError, AttestationLatencyModel, AttestationService, Enclave, IasVerifier,
    Measurement,
};

/// Session parameters chosen by the victim.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Measurement of the audited open-source VIF build the victim trusts.
    pub expected_measurement: Measurement,
    /// Per-bin audit tolerance (absorbs benign loss, §III-B).
    pub tolerance: u64,
}

/// Errors during session establishment or use.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// Attestation failed (forged quote, wrong measurement, bad IAS
    /// countersignature).
    Attestation(AttestationError),
    /// The quote's report data does not bind the enclave's channel key.
    BadReportBinding,
    /// Diffie-Hellman failure (degenerate peer value).
    Dh(DhError),
    /// Channel authentication failure (tampered/replayed message).
    Channel(ChannelError),
    /// RPKI refused the rule submission.
    Rpki(RpkiError),
    /// Malformed rule encoding.
    RuleDecode(RuleDecodeError),
    /// The enclave's acknowledgement did not match the submission.
    BadAck,
    /// Protocol used before the handshake completed.
    NotEstablished,
    /// A contract-scoped ECall named a contract the enclave has never
    /// seen a handshake for.
    UnknownContract(ContractId),
    /// A frame's embedded contract id disagrees with the session slot it
    /// arrived on (a cross-tenant replay by the untrusted relay).
    ContractMismatch {
        /// The contract the receiving slot belongs to.
        expected: ContractId,
        /// The contract id embedded in the frame.
        got: ContractId,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Attestation(e) => write!(f, "attestation: {e}"),
            SessionError::BadReportBinding => write!(f, "report does not bind channel key"),
            SessionError::Dh(e) => write!(f, "key agreement: {e}"),
            SessionError::Channel(e) => write!(f, "channel: {e}"),
            SessionError::Rpki(e) => write!(f, "rpki: {e}"),
            SessionError::RuleDecode(e) => write!(f, "rule decode: {e}"),
            SessionError::BadAck => write!(f, "acknowledgement mismatch"),
            SessionError::NotEstablished => write!(f, "session not established"),
            SessionError::UnknownContract(c) => write!(f, "unknown contract {c}"),
            SessionError::ContractMismatch { expected, got } => {
                write!(f, "frame for contract {got} arrived on contract {expected}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<AttestationError> for SessionError {
    fn from(e: AttestationError) -> Self {
        SessionError::Attestation(e)
    }
}

impl From<DhError> for SessionError {
    fn from(e: DhError) -> Self {
        SessionError::Dh(e)
    }
}

impl From<ChannelError> for SessionError {
    fn from(e: ChannelError) -> Self {
        SessionError::Channel(e)
    }
}

impl From<RpkiError> for SessionError {
    fn from(e: RpkiError) -> Self {
        SessionError::Rpki(e)
    }
}

/// Key material both endpoints derive from the DH shared secret.
#[derive(Debug, Clone)]
pub struct SessionKeys {
    /// HMAC key authenticating exported packet logs.
    pub audit_key: [u8; 32],
    /// Seed for the session's sketch hash family.
    pub sketch_seed: u64,
}

/// Derives the session keys from the DH shared secret.
pub fn derive_session_keys(shared_secret: &[u8], nonce: &[u8; 32]) -> SessionKeys {
    let okm = kdf::hkdf(b"vif-session-v1", shared_secret, nonce, 40);
    let mut audit_key = [0u8; 32];
    audit_key.copy_from_slice(&okm[..32]);
    let sketch_seed = u64::from_le_bytes(okm[32..40].try_into().expect("8 bytes"));
    SessionKeys {
        audit_key,
        sketch_seed,
    }
}

/// Computes the 64-byte report data binding a channel public key to an
/// attestation challenge.
pub fn report_binding(enclave_pub: &[u8], nonce: &[u8; 32]) -> [u8; 64] {
    let mut h = Sha256::new();
    h.update(enclave_pub);
    h.update(nonce);
    let digest = h.finalize();
    let mut out = [0u8; 64];
    out[..32].copy_from_slice(&digest);
    out
}

/// The DDoS victim's client state.
#[derive(Debug)]
pub struct VictimClient {
    identity: OwnerId,
    dh: DhKeyPair,
    ias_verifier: IasVerifier,
    config: SessionConfig,
}

impl VictimClient {
    /// Creates a client. `dh_secret` seeds the victim's ephemeral key.
    pub fn new(
        identity: OwnerId,
        dh_secret: &[u8; 32],
        ias_verifier: IasVerifier,
        config: SessionConfig,
    ) -> Self {
        VictimClient {
            identity,
            dh: DhGroup::modp_2048().key_pair_from_secret(dh_secret),
            ias_verifier,
            config,
        }
    }

    /// The victim's RPKI identity (key hash).
    pub fn identity(&self) -> OwnerId {
        self.identity
    }

    /// Runs the full attestation + key-agreement handshake against an
    /// enclave, via the (untrusted) controller and the IAS, under a named
    /// contract: the handshake lands in that contract's enclave slot, and
    /// every frame the resulting session sends is tagged with (and checked
    /// against) the contract id. Multiple victims can hold concurrent
    /// sessions on one enclave without sharing rules, sketches, or audit
    /// keys; a single victim names the default contract 0.
    ///
    /// # Errors
    ///
    /// Any verification failure aborts with the corresponding
    /// [`SessionError`].
    pub fn establish_contract(
        &self,
        enclave: Arc<Enclave<FilterEnclaveApp>>,
        ias: &AttestationService,
        nonce: [u8; 32],
        contract: ContractId,
    ) -> Result<FilteringSession, SessionError> {
        // 1. Challenge: the enclave generates its channel key inside and
        //    quotes the binding.
        let enclave_pub = enclave.ecall(move |app| app.begin_handshake_for(contract, nonce));
        let quote = enclave.quote(report_binding(&enclave_pub, &nonce));

        // 2. The controller relays the quote to the IAS (untrusted relay —
        //    the signatures carry the trust).
        let report = ias.verify_quote(&quote)?;

        // 3. Victim-side validation: IAS countersignature, pinned
        //    measurement, and channel-key binding.
        self.ias_verifier
            .validate(&report, self.config.expected_measurement)?;
        if report.quote.report.report_data != report_binding(&enclave_pub, &nonce) {
            return Err(SessionError::BadReportBinding);
        }

        // 4. Key agreement + channel derivation on both sides.
        let shared = self.dh.shared_secret(&enclave_pub)?;
        let keys = derive_session_keys(&shared, &nonce);
        let (victim_channel, _) = SecureChannel::pair_from_secret(&shared, &nonce);
        let victim_public = self.dh.public_bytes();
        enclave
            .ecall(move |app| app.complete_handshake_for(contract, &victim_public, &nonce))
            .map_err(SessionError::Dh)?;

        let attestation_latency_ns =
            AttestationLatencyModel::paper_default().end_to_end_ns(enclave.image().code_size());

        Ok(FilteringSession {
            enclave,
            victim_channel,
            keys,
            identity: self.identity,
            tolerance: self.config.tolerance,
            attestation_latency_ns,
            contract,
        })
    }
}

/// An established filtering session.
#[derive(Debug)]
pub struct FilteringSession {
    enclave: Arc<Enclave<FilterEnclaveApp>>,
    victim_channel: SecureChannel,
    keys: SessionKeys,
    identity: OwnerId,
    tolerance: u64,
    attestation_latency_ns: u64,
    contract: ContractId,
}

impl FilteringSession {
    /// The attested enclave.
    pub fn enclave(&self) -> &Arc<Enclave<FilterEnclaveApp>> {
        &self.enclave
    }

    /// The contract this session operates under.
    pub fn contract(&self) -> ContractId {
        self.contract
    }

    /// Derived session keys.
    pub fn keys(&self) -> &SessionKeys {
        &self.keys
    }

    /// Modeled end-to-end attestation latency (Appendix G).
    pub fn attestation_latency_ns(&self) -> u64 {
        self.attestation_latency_ns
    }

    /// Encodes, transmits, and RPKI-authorizes filter rules. The enclave
    /// **queues** them: they take force at the cluster's next epoch
    /// publication ([`EnclaveCluster::publish_contract`]), never stalling the
    /// data path mid-round, and on every slice at once.
    ///
    /// Returns the number of rules queued.
    ///
    /// # Errors
    ///
    /// [`SessionError::Rpki`] if any rule filters space the victim does not
    /// hold; channel/decoding errors if the untrusted relay tampered.
    /// Nothing is queued on failure.
    ///
    /// [`EnclaveCluster::publish_contract`]: crate::scale::EnclaveCluster::publish_contract
    pub fn submit_rules_deferred(
        &mut self,
        rules: &[FilterRule],
        rpki: &RpkiRegistry,
    ) -> Result<usize, SessionError> {
        let (contract, identity) = (self.contract, self.identity);
        self.request(
            Self::encode_rules(contract, rules),
            rules.len(),
            |app, frame| app.receive_rules_deferred_for(contract, frame, &identity, rpki),
        )
    }

    /// Encodes and transmits a rule **withdrawal** — the removal half of
    /// the §VI-B churn protocol. `ids` are the enclave-side
    /// [`RuleId`](crate::ruleset::RuleId)s to take out of force (stable
    /// across prior churn: the enclave tombstones slots, never renumbers).
    /// The enclave queues them for the next epoch publication, which
    /// unlinks only ids the contract owns; unknown, foreign or already
    /// withdrawn ids are skipped, not errors, so a victim can safely retry
    /// after a lost ack. The ack counts ids *queued* (whether each was in
    /// force is known only at publication), so the returned count equals
    /// `ids.len()` on success.
    ///
    /// # Errors
    ///
    /// Channel errors if the untrusted relay tampered;
    /// [`SessionError::BadAck`] on a malformed acknowledgement. Nothing is
    /// queued on failure.
    pub fn withdraw_rules_deferred(
        &mut self,
        ids: &[crate::ruleset::RuleId],
    ) -> Result<usize, SessionError> {
        let contract = self.contract;
        self.request(Self::encode_ids(contract, ids), ids.len(), |app, frame| {
            app.receive_rule_withdrawal_deferred_for(contract, frame)
        })
    }

    /// Seals `payload` on the channel, hands the frame to the enclave's
    /// `receive` ECall, and checks that the sealed acknowledgement counts
    /// `expected` entries queued.
    fn request(
        &mut self,
        payload: Vec<u8>,
        expected: usize,
        receive: impl FnOnce(&mut FilterEnclaveApp, &[u8]) -> Result<Vec<u8>, SessionError>,
    ) -> Result<usize, SessionError> {
        let frame = self.victim_channel.seal(&payload);
        let ack = self.enclave.ecall(|app| receive(app, &frame))?;
        let ack = self.victim_channel.open(&ack)?;
        match ack.get(..4) {
            Some(n) if n == (expected as u32).to_le_bytes() => Ok(expected),
            _ => Err(SessionError::BadAck),
        }
    }

    /// Encodes a rule-submission payload
    /// (`contract` + `count` + 29-byte encodings).
    fn encode_rules(contract: ContractId, rules: &[FilterRule]) -> Vec<u8> {
        let mut payload = Vec::with_capacity(8 + rules.len() * 29);
        payload.extend_from_slice(&contract.to_le_bytes());
        payload.extend_from_slice(&(rules.len() as u32).to_le_bytes());
        for r in rules {
            payload.extend_from_slice(&r.encode());
        }
        payload
    }

    /// Encodes a withdrawal payload (`contract` + `count` + 4-byte LE ids).
    fn encode_ids(contract: ContractId, ids: &[crate::ruleset::RuleId]) -> Vec<u8> {
        let mut payload = Vec::with_capacity(8 + ids.len() * 4);
        payload.extend_from_slice(&contract.to_le_bytes());
        payload.extend_from_slice(&(ids.len() as u32).to_le_bytes());
        for id in ids {
            payload.extend_from_slice(&id.to_le_bytes());
        }
        payload
    }

    /// A victim-side verifier bound to this session's keys.
    pub fn victim_verifier(&self) -> Verifier {
        self.verifier(LogDirection::Outgoing)
    }

    /// A neighbor-side verifier bound to this session's keys.
    ///
    /// (In full generality each neighbor attests the enclave itself and
    /// derives its own key; they share the session audit key here.)
    pub fn neighbor_verifier(&self) -> Verifier {
        self.verifier(LogDirection::Incoming)
    }

    fn verifier(&self, direction: LogDirection) -> Verifier {
        Verifier::new(
            direction,
            self.keys.sketch_seed,
            self.keys.audit_key,
            self.tolerance,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::FlowPattern;
    use crate::ruleset::RuleSet;
    use crate::scale::EnclaveCluster;
    use vif_sgx::{AttestationRootKey, EnclaveImage, EpcConfig, SgxPlatform};

    fn platform() -> (SgxPlatform, EnclaveImage, AttestationRootKey) {
        let root = AttestationRootKey::new([3u8; 32]);
        let platform = SgxPlatform::new(7, EpcConfig::paper_default(), &root);
        let image = EnclaveImage::new("vif-filter", 1, vec![0xAB; 1 << 20]);
        (platform, image, root)
    }

    #[test]
    fn sketch_seed_is_not_the_audit_key() {
        // The audit key is the first 32 bytes of the session KDF and the
        // sketch seed the next 8: a seed cut from the key would hand the
        // host key bytes wherever the seed travels.
        let cases: [(&[u8], [u8; 32]); 3] = [
            (b"shared secret", [0u8; 32]),
            (&[0x5a; 48], [1u8; 32]),
            (b"another secret", [0xff; 32]),
        ];
        for (secret, nonce) in cases {
            let okm = kdf::hkdf(b"vif-session-v1", secret, &nonce, 40);
            let keys = derive_session_keys(secret, &nonce);
            assert_eq!(keys.audit_key[..], okm[..32]);
            let seed = u64::from_le_bytes(okm[32..40].try_into().unwrap());
            assert_eq!(keys.sketch_seed, seed);
            assert_ne!(keys.sketch_seed.to_le_bytes()[..], keys.audit_key[..8]);
        }
    }

    fn setup() -> (
        Arc<Enclave<FilterEnclaveApp>>,
        AttestationService,
        VictimClient,
        RpkiRegistry,
    ) {
        let (platform, image, root) = platform();
        let expected = image.measurement();
        let enclave = Arc::new(platform.launch(image, FilterEnclaveApp::fresh([9u8; 32])));
        let ias = AttestationService::new(root);
        let victim = VictimClient::new(
            [1u8; 32],
            &[0x42; 32],
            ias.verifier(),
            SessionConfig {
                expected_measurement: expected,
                tolerance: 0,
            },
        );
        let mut rpki = RpkiRegistry::new();
        rpki.register("203.0.113.0/24".parse().unwrap(), [1u8; 32]);
        (enclave, ias, victim, rpki)
    }

    /// The one-slice cluster around `session`'s enclave: what publishes
    /// the session's queued churn.
    fn one_slice(session: &FilteringSession) -> EnclaveCluster {
        let (platform, image, _) = platform();
        let keys = session.keys();
        EnclaveCluster::launch_rss_with(
            platform,
            image,
            Arc::clone(session.enclave()),
            RuleSet::new(),
            1,
            [9u8; 32],
            keys.sketch_seed,
            keys.audit_key,
        )
    }

    fn rules() -> Vec<FilterRule> {
        vec![FilterRule::drop(FlowPattern::http_to(
            "203.0.113.0/24".parse().unwrap(),
        ))]
    }

    #[test]
    fn full_handshake_and_rule_install() {
        let (enclave, ias, victim, rpki) = setup();
        let mut session = victim
            .establish_contract(Arc::clone(&enclave), &ias, [0x11; 32], 0)
            .unwrap();
        let mut cluster = one_slice(&session);
        let n = session.submit_rules_deferred(&rules(), &rpki).unwrap();
        assert_eq!(n, 1);
        // Queued, not in force, until the epoch is published.
        assert_eq!(enclave.ecall(|app| app.pending_installs_for(0)), 1);
        assert_eq!(enclave.ecall(|app| app.ruleset().len()), 0);
        assert_eq!(cluster.publish_contract(0, 0).new_rule_ids, vec![0]);
        assert_eq!(enclave.ecall(|app| app.ruleset().len()), 1);
        assert_eq!(enclave.ecall(|app| app.pending_installs_for(0)), 0);
    }

    #[test]
    fn rule_withdrawal_roundtrip() {
        use vif_dataplane::{FiveTuple, Protocol};
        let (enclave, ias, victim, rpki) = setup();
        let mut session = victim
            .establish_contract(Arc::clone(&enclave), &ias, [0x77; 32], 0)
            .unwrap();
        let mut cluster = one_slice(&session);
        session.submit_rules_deferred(&rules(), &rpki).unwrap();
        cluster.publish_contract(0, 0);
        let t = FiveTuple::new(
            7,
            u32::from_be_bytes([203, 0, 113, 4]),
            999,
            80,
            Protocol::Tcp,
        );
        assert_eq!(
            enclave.in_enclave_thread(|app| app.process(&t, 64)).action,
            crate::rules::RuleAction::Drop
        );
        // Withdraw rule 0 over the channel; the drop stops applying at the
        // next epoch.
        assert_eq!(session.withdraw_rules_deferred(&[0]).unwrap(), 1);
        assert_eq!(cluster.publish_contract(0, 0).withdrawals, 1);
        assert_eq!(enclave.ecall(|app| app.ruleset().active_len()), 0);
        assert_eq!(
            enclave.in_enclave_thread(|app| app.process(&t, 64)).action,
            crate::rules::RuleAction::Allow
        );
        // Idempotent: withdrawing again queues, withdraws nothing, errors
        // nothing (ids the contract no longer owns drop at the drain).
        assert_eq!(session.withdraw_rules_deferred(&[0, 42]).unwrap(), 2);
        let report = cluster.publish_contract(0, 0);
        assert_eq!((report.edits, report.withdrawals), (0, 0));
    }

    #[test]
    fn withdrawal_requires_established_session() {
        let mut app = FilterEnclaveApp::fresh([9u8; 32]);
        let err = app
            .receive_rule_withdrawal_deferred_for(0, &[0u8; 16])
            .unwrap_err();
        assert_eq!(err, SessionError::NotEstablished);
    }

    #[test]
    fn request_frame_shorter_than_its_header_is_a_decode_error() {
        let (enclave, ias, victim, rpki) = setup();
        let mut session = victim
            .establish_contract(Arc::clone(&enclave), &ias, [0x78; 32], 0)
            .unwrap();
        let identity = session.identity;
        let frame = session.victim_channel.seal(&[0u8; 5]);
        let err = enclave
            .ecall(move |app| app.receive_rules_deferred_for(0, &frame, &identity, &rpki))
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::RuleDecode(RuleDecodeError::WrongLength(5))
        );
        let frame = session.victim_channel.seal(&[0u8; 5]);
        let err = enclave
            .ecall(move |app| app.receive_rule_withdrawal_deferred_for(0, &frame))
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::RuleDecode(RuleDecodeError::WrongLength(5))
        );
        assert_eq!(enclave.ecall(|app| app.pending_edits()), 0);
    }

    #[test]
    fn frame_for_another_contract_is_refused() {
        // The relay replays a well-formed frame onto the wrong tenant's
        // slot: the in-frame contract id gives it away.
        let (enclave, ias, victim, rpki) = setup();
        let mut session = victim
            .establish_contract(Arc::clone(&enclave), &ias, [0x79; 32], 0)
            .unwrap();
        let identity = session.identity;
        let frame = session
            .victim_channel
            .seal(&FilteringSession::encode_rules(3, &rules()));
        let err = enclave
            .ecall(move |app| app.receive_rules_deferred_for(0, &frame, &identity, &rpki))
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::ContractMismatch {
                expected: 0,
                got: 3
            }
        );
        assert_eq!(enclave.ecall(|app| app.pending_edits()), 0);
    }

    #[test]
    fn wrong_measurement_rejected() {
        let (_, ias, _, _) = setup();
        // Launch a *different* (trojaned) image on a valid platform.
        let root = AttestationRootKey::new([3u8; 32]);
        let platform = SgxPlatform::new(8, EpcConfig::paper_default(), &root);
        let evil = EnclaveImage::new("vif-filter-evil", 1, vec![0xEE; 64]);
        let enclave = Arc::new(platform.launch(evil, FilterEnclaveApp::fresh([9u8; 32])));
        let good_measurement =
            EnclaveImage::new("vif-filter", 1, vec![0xAB; 1 << 20]).measurement();
        let victim = VictimClient::new(
            [1u8; 32],
            &[0x42; 32],
            ias.verifier(),
            SessionConfig {
                expected_measurement: good_measurement,
                tolerance: 0,
            },
        );
        let err = victim
            .establish_contract(enclave, &ias, [0x22; 32], 0)
            .unwrap_err();
        assert!(matches!(
            err,
            SessionError::Attestation(AttestationError::MeasurementMismatch { .. })
        ));
    }

    #[test]
    fn foreign_root_rejected() {
        let (_, _, _, _) = setup();
        // Platform provisioned under a different root than the IAS.
        let evil_root = AttestationRootKey::new([66u8; 32]);
        let platform = SgxPlatform::new(9, EpcConfig::paper_default(), &evil_root);
        let image = EnclaveImage::new("vif-filter", 1, vec![0xAB; 1 << 20]);
        let enclave = Arc::new(platform.launch(image.clone(), FilterEnclaveApp::fresh([9u8; 32])));
        let ias = AttestationService::new(AttestationRootKey::new([3u8; 32]));
        let victim = VictimClient::new(
            [1u8; 32],
            &[0x42; 32],
            ias.verifier(),
            SessionConfig {
                expected_measurement: image.measurement(),
                tolerance: 0,
            },
        );
        let err = victim
            .establish_contract(enclave, &ias, [0x33; 32], 0)
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::Attestation(AttestationError::BadPlatformSignature)
        );
    }

    #[test]
    fn rpki_blocks_filtering_others_space() {
        let (enclave, ias, victim, rpki) = setup();
        let mut session = victim
            .establish_contract(enclave, &ias, [0x44; 32], 0)
            .unwrap();
        let foreign = vec![FilterRule::drop(FlowPattern::http_to(
            "198.51.100.0/24".parse().unwrap(),
        ))];
        let err = session.submit_rules_deferred(&foreign, &rpki).unwrap_err();
        assert!(matches!(err, SessionError::Rpki(_)));
        assert_eq!(
            session.enclave().ecall(|app| app.pending_installs_for(0)),
            0
        );
    }

    #[test]
    fn verifiers_share_session_keys() {
        let (enclave, ias, victim, rpki) = setup();
        let mut session = victim
            .establish_contract(enclave, &ias, [0x55; 32], 0)
            .unwrap();
        session.submit_rules_deferred(&rules(), &rpki).unwrap();
        one_slice(&session).publish_contract(0, 0);
        // Process a packet and audit: an honest run is clean end to end.
        use vif_dataplane::{FiveTuple, Protocol};
        let t = FiveTuple::new(
            5,
            u32::from_be_bytes([203, 0, 113, 8]),
            999,
            443,
            Protocol::Tcp,
        );
        let mut victim_verifier = session.victim_verifier();
        session.enclave().in_enclave_thread(|app| {
            app.process(&t, 64);
        });
        victim_verifier.observe(&t);
        let export = session
            .enclave()
            .ecall(|app| app.export_log_for(0, crate::logs::LogDirection::Outgoing));
        let report = victim_verifier.audit(&export).unwrap();
        assert!(!report.bypass_detected());
    }

    #[test]
    fn attestation_latency_modeled() {
        let (enclave, ias, victim, _) = setup();
        let session = victim
            .establish_contract(enclave, &ias, [0x66; 32], 0)
            .unwrap();
        let s = session.attestation_latency_ns() as f64 / 1e9;
        assert!((2.5..3.5).contains(&s), "attestation latency {s}s");
    }
}
