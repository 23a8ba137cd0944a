//! Integration: §III-B bypass detection across adversary intensities.

use std::sync::Arc;
use vif::core::prelude::*;
use vif::dataplane::{FlowSet, TrafficConfig, TrafficGenerator};
use vif::sgx::{AttestationRootKey, Enclave, EnclaveImage, EpcConfig, SgxPlatform};

const SEED: u64 = 404;
const KEY: [u8; 32] = [12u8; 32];

fn enclave() -> Arc<Enclave<FilterEnclaveApp>> {
    let root = AttestationRootKey::new([4u8; 32]);
    let platform = SgxPlatform::new(9, EpcConfig::paper_default(), &root);
    let rules = RuleSet::from_rules(vec![FilterRule::drop_fraction(
        FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            "203.0.113.0/24".parse().unwrap(),
        ),
        0.5,
    )]);
    let app = FilterEnclaveApp::new(rules, [1u8; 32], SEED, KEY);
    Arc::new(platform.launch(EnclaveImage::new("vif", 1, vec![0; 64]), app))
}

fn traffic(count: usize) -> Vec<vif::dataplane::Packet> {
    let mut flows: Vec<FiveTuple> =
        FlowSet::random_toward_victim(64, u32::from_be_bytes([203, 0, 113, 2]), 5)
            .flows()
            .to_vec();
    for (i, t) in flows.iter_mut().enumerate() {
        // Half attack sources (10/8), half benign.
        let top = if i % 2 == 0 { 0x0a000000 } else { 0x0c000000 };
        t.src_ip = top | (t.src_ip & 0x00ffffff);
    }
    TrafficGenerator::new(6).generate(
        &FlowSet::uniform(flows),
        TrafficConfig {
            packet_size: 256,
            offered_gbps: 2.0,
            count,
        },
    )
}

fn run_with(adversary: AdversaryBehavior) -> RunReport {
    FilteringRun::new(
        enclave(),
        VictimVerifier::new(SEED, KEY, 0),
        NeighborVerifier::new(SEED, KEY, 0),
        adversary,
        8,
    )
    .execute(&traffic(4000))
}

#[test]
fn honest_run_has_no_false_positives() {
    let report = run_with(AdversaryBehavior::honest());
    assert!(!report.bypass_detected());
}

#[test]
fn even_small_drop_rates_detected() {
    for fraction in [0.01, 0.05, 0.2, 0.9] {
        let report = run_with(AdversaryBehavior {
            drop_after_fraction: fraction,
            ..Default::default()
        });
        assert!(
            report.victim_audit.bypass_detected(),
            "drop fraction {fraction} went undetected"
        );
    }
}

#[test]
fn single_injected_packet_detected_at_zero_tolerance() {
    let spoofed = FiveTuple::new(
        0x0a999999,
        u32::from_be_bytes([203, 0, 113, 2]),
        7,
        7,
        Protocol::Udp,
    );
    let report = run_with(AdversaryBehavior {
        injected_after: vec![(spoofed, 1)],
        ..Default::default()
    });
    assert_eq!(
        report.victim_audit.verdict,
        vif::core::verify::BypassVerdict::InjectionDetected
    );
}

#[test]
fn drop_before_filter_blames_the_right_party() {
    let report = run_with(AdversaryBehavior {
        drop_before_fraction: 0.15,
        ..Default::default()
    });
    // Neighbor sees it; the victim's outgoing audit stays clean, so blame
    // is localized to the filtering network's ingress.
    assert!(report.neighbor_audit.bypass_detected());
    assert!(!report.victim_audit.bypass_detected());
}

#[test]
fn filtering_accuracy_is_auditable_not_just_presence() {
    // [Goal 2] of the threat model: the operator must not silently filter
    // *less* than requested to save resources. With connection-preserving
    // 50% drop, the victim can also check the realized drop rate.
    let report = run_with(AdversaryBehavior::honest());
    let c = report.counters;
    // Half the flows are attack flows under a 0.5-drop rule: expect
    // roughly 25% of packets dropped overall, with generous slack.
    let drop_rate = c.filtered as f64 / c.offered as f64;
    assert!(
        (0.15..0.35).contains(&drop_rate),
        "realized drop rate {drop_rate}"
    );
}

#[test]
fn round_rotation_resets_audits() {
    let e = enclave();
    let t = FiveTuple::new(
        0x0a000001,
        u32::from_be_bytes([203, 0, 113, 2]),
        1,
        2,
        Protocol::Tcp,
    );
    e.in_enclave_thread(|app| app.process(&t, 64));
    assert!(e.ecall(|app| app.logs_of(0).incoming().total()) > 0);
    e.ecall(|app| app.new_round());
    assert_eq!(e.ecall(|app| app.logs_of(0).incoming().total()), 0);
    assert_eq!(e.ecall(|app| app.logs_of(0).round()), 1);
}
