//! Integration: the full victim ↔ IXP ↔ enclave protocol across crates.

use std::sync::Arc;
use vif::core::prelude::*;
use vif::core::session::{SessionConfig, VictimClient};
use vif::sgx::{
    AttestationRootKey, AttestationService, Enclave, EnclaveImage, EpcConfig, SgxPlatform,
};

struct World {
    ias: AttestationService,
    platform: SgxPlatform,
    image: EnclaveImage,
    rpki: RpkiRegistry,
    victim_identity: [u8; 32],
}

fn world() -> World {
    let root = AttestationRootKey::new([11u8; 32]);
    let platform = SgxPlatform::new(5, EpcConfig::paper_default(), &root);
    let image = EnclaveImage::new("vif-filter", 2, vec![0x90; 4096]);
    let mut rpki = RpkiRegistry::new();
    let victim_identity = [3u8; 32];
    rpki.register("203.0.113.0/24".parse().unwrap(), victim_identity);
    World {
        ias: AttestationService::new(root),
        platform,
        image,
        rpki,
        victim_identity,
    }
}

fn launch(w: &World) -> Arc<Enclave<FilterEnclaveApp>> {
    Arc::new(
        w.platform
            .launch(w.image.clone(), FilterEnclaveApp::fresh([9u8; 32])),
    )
}

/// The one-slice cluster around `session`'s enclave: what publishes the
/// session's queued rules.
fn one_slice(w: &World, session: &FilteringSession) -> EnclaveCluster {
    let keys = session.keys();
    EnclaveCluster::launch_rss_with(
        w.platform.clone(),
        w.image.clone(),
        Arc::clone(session.enclave()),
        RuleSet::new(),
        1,
        [9u8; 32],
        keys.sketch_seed,
        keys.audit_key,
    )
}

fn client(w: &World) -> VictimClient {
    VictimClient::new(
        w.victim_identity,
        &[0x21; 32],
        w.ias.verifier(),
        SessionConfig {
            expected_measurement: w.image.measurement(),
            tolerance: 0,
        },
    )
}

#[test]
fn establish_submit_filter_audit() {
    let w = world();
    let enclave = launch(&w);
    let mut session = client(&w)
        .establish_contract(Arc::clone(&enclave), &w.ias, [1u8; 32], 0)
        .expect("handshake");

    let rules = vec![FilterRule::drop(
        FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            "203.0.113.0/24".parse().unwrap(),
        )
        .with_protocol(Protocol::Udp),
    )];
    assert_eq!(session.submit_rules_deferred(&rules, &w.rpki).unwrap(), 1);
    assert_eq!(one_slice(&w, &session).publish_contract(0, 0).installs, 1);

    // Traffic: attack (matches) + benign (does not).
    let attack = FiveTuple::new(
        0x0a000001,
        u32::from_be_bytes([203, 0, 113, 9]),
        53,
        1234,
        Protocol::Udp,
    );
    let benign = FiveTuple::new(
        0x0b000001,
        u32::from_be_bytes([203, 0, 113, 9]),
        53,
        1234,
        Protocol::Udp,
    );
    let mut victim_verifier = session.victim_verifier();
    let mut neighbor_verifier = session.neighbor_verifier();
    let (mut dropped, mut forwarded) = (0, 0);
    for _ in 0..100 {
        for t in [attack, benign] {
            neighbor_verifier.observe(&t);
            let v = enclave.in_enclave_thread(|app| app.process(&t, 64));
            if v.action == vif::core::rules::RuleAction::Allow {
                victim_verifier.observe(&t);
                forwarded += 1;
            } else {
                dropped += 1;
            }
        }
    }
    assert_eq!((dropped, forwarded), (100, 100));

    let out = enclave.ecall(|app| app.export_log_for(0, vif::core::logs::LogDirection::Outgoing));
    let inc = enclave.ecall(|app| app.export_log_for(0, vif::core::logs::LogDirection::Incoming));
    assert!(!victim_verifier.audit(&out).unwrap().bypass_detected());
    assert!(!neighbor_verifier.audit(&inc).unwrap().bypass_detected());
}

#[test]
fn tampered_rule_frame_rejected_by_enclave() {
    let w = world();
    let enclave = launch(&w);
    let session = client(&w)
        .establish_contract(Arc::clone(&enclave), &w.ias, [2u8; 32], 0)
        .expect("handshake");
    // The untrusted network forges a rule frame without the channel key.
    let forged = vec![0u8; 64];
    let identity = w.victim_identity;
    let rpki = w.rpki.clone();
    let result =
        enclave.ecall(move |app| app.receive_rules_deferred_for(0, &forged, &identity, &rpki));
    assert!(result.is_err());
    assert_eq!(
        session.enclave().ecall(|app| app.pending_installs_for(0)),
        0
    );
}

#[test]
fn nonce_binding_prevents_quote_reuse() {
    // A quote produced for one challenge must not satisfy another.
    let w = world();
    let enclave = launch(&w);
    let nonce_a = [0xAA; 32];
    let enclave_pub = enclave.ecall(|app| app.begin_handshake_for(0, nonce_a));
    let quote = enclave.quote(vif::core::session::report_binding(&enclave_pub, &nonce_a));
    let report = w.ias.verify_quote(&quote).unwrap();
    // Validating against a different nonce's binding fails.
    let nonce_b = [0xBB; 32];
    assert_ne!(
        report.quote.report.report_data,
        vif::core::session::report_binding(&enclave_pub, &nonce_b)
    );
}

#[test]
fn two_sessions_have_independent_keys() {
    let w = world();
    let e1 = launch(&w);
    let e2 = launch(&w);
    let c = client(&w);
    let s1 = c.establish_contract(e1, &w.ias, [1u8; 32], 0).unwrap();
    let s2 = c.establish_contract(e2, &w.ias, [2u8; 32], 0).unwrap();
    assert_ne!(s1.keys().audit_key, s2.keys().audit_key);
    assert_ne!(s1.keys().sketch_seed, s2.keys().sketch_seed);
}

#[test]
fn control_plane_uses_ecalls_data_plane_does_not() {
    let w = world();
    let enclave = launch(&w);
    let mut session = client(&w)
        .establish_contract(Arc::clone(&enclave), &w.ias, [4u8; 32], 0)
        .unwrap();
    let before = enclave.ecalls();
    // Data path: a million... well, a thousand packets, zero ECalls.
    let t = FiveTuple::new(1, u32::from_be_bytes([203, 0, 113, 1]), 2, 3, Protocol::Tcp);
    for _ in 0..1000 {
        enclave.in_enclave_thread(|app| app.process(&t, 64));
    }
    assert_eq!(enclave.ecalls(), before);
    // Control plane (rule submission) pays ECalls.
    let rules = vec![FilterRule::drop(FlowPattern::http_to(
        "203.0.113.0/24".parse().unwrap(),
    ))];
    session.submit_rules_deferred(&rules, &w.rpki).unwrap();
    assert!(enclave.ecalls() > before);
}
