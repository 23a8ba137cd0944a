//! Integration: §III-B bypass detection across adversary intensities.

use std::sync::Arc;
use vif::core::logs::LogDirection;
use vif::core::prelude::*;
use vif::core::verify::AuditReport;
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

/// What the malicious filtering network does around the enclave: §III-B's
/// three bypass attacks.
#[derive(Default)]
struct Adversary {
    /// Fraction of packets dropped *before* they reach the filter.
    drop_before: f64,
    /// Fraction of filter-allowed packets dropped *after* the filter.
    drop_after: f64,
    /// Packets injected toward the victim after the filter: `(flow, count)`.
    injected: Vec<(FiveTuple, u64)>,
}

/// Where every offered packet ended up.
#[derive(Default)]
struct Counters {
    offered: u64,
    dropped_before: u64,
    filtered: u64,
    dropped_after: u64,
    injected: u64,
    received_by_victim: u64,
}

struct Run {
    counters: Counters,
    victim: AuditReport,
    neighbor: AuditReport,
}

impl Run {
    fn bypass_detected(&self) -> bool {
        self.victim.bypass_detected() || self.neighbor.bypass_detected()
    }
}

/// A seeded coin: splitmix64 over a counter, so every run is reproducible.
fn coin(state: &mut u64, p: f64) -> bool {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    ((z >> 11) as f64 / (1u64 << 53) as f64) < p
}

/// One round: the neighbor observes what it hands over, the adversary acts
/// around `FilterEnclaveApp::process`, the victim observes what arrives,
/// and both verifiers audit the enclave's authenticated exports.
fn run_with(adversary: Adversary) -> Run {
    let enclave = enclave();
    let mut victim = Verifier::new(LogDirection::Outgoing, SEED, KEY, 0);
    let mut neighbor = Verifier::new(LogDirection::Incoming, SEED, KEY, 0);
    let mut rng = 8u64;
    let mut c = Counters::default();
    for pkt in traffic(4000) {
        c.offered += 1;
        neighbor.observe(&pkt.tuple);
        if coin(&mut rng, adversary.drop_before) {
            c.dropped_before += 1;
            continue;
        }
        let action = enclave.in_enclave_thread(|app| app.process(&pkt.tuple, 256).action);
        if action == RuleAction::Drop {
            c.filtered += 1;
        } else if coin(&mut rng, adversary.drop_after) {
            c.dropped_after += 1;
        } else {
            c.received_by_victim += 1;
            victim.observe(&pkt.tuple);
        }
    }
    for (tuple, count) in &adversary.injected {
        for _ in 0..*count {
            c.injected += 1;
            c.received_by_victim += 1;
            victim.observe(tuple);
        }
    }
    let outgoing = enclave.ecall(|app| app.export_log_for(0, LogDirection::Outgoing));
    let incoming = enclave.ecall(|app| app.export_log_for(0, LogDirection::Incoming));
    Run {
        counters: c,
        victim: victim.audit(&outgoing).expect("authentic export"),
        neighbor: neighbor.audit(&incoming).expect("authentic export"),
    }
}

fn spoofed(src_ip: u32) -> FiveTuple {
    FiveTuple::new(
        src_ip,
        u32::from_be_bytes([203, 0, 113, 2]),
        7,
        7,
        Protocol::Udp,
    )
}

#[test]
fn honest_run_has_no_false_positives() {
    let report = run_with(Adversary::default());
    assert!(!report.bypass_detected());
    let c = report.counters;
    assert_eq!(c.offered, 4000);
    assert_eq!(c.received_by_victim + c.filtered, c.offered);
}

#[test]
fn even_small_drop_rates_detected() {
    for fraction in [0.01, 0.05, 0.2, 0.9] {
        let report = run_with(Adversary {
            drop_after: fraction,
            ..Default::default()
        });
        assert!(
            report.victim.bypass_detected(),
            "drop fraction {fraction} went undetected"
        );
    }
}

#[test]
fn single_injected_packet_detected_at_zero_tolerance() {
    let report = run_with(Adversary {
        injected: vec![(spoofed(0x0a999999), 1)],
        ..Default::default()
    });
    assert_eq!(
        report.victim.verdict,
        vif::core::verify::BypassVerdict::InjectionDetected
    );
}

#[test]
fn drop_before_filter_blames_the_right_party() {
    let report = run_with(Adversary {
        drop_before: 0.15,
        ..Default::default()
    });
    // Neighbor sees it; the victim's outgoing audit stays clean, so blame
    // is localized to the filtering network's ingress.
    assert!(report.neighbor.bypass_detected());
    assert!(!report.victim.bypass_detected());
    assert!(report.counters.dropped_before > 0);
}

#[test]
fn drop_after_filter_leaves_the_neighbor_audit_clean() {
    let report = run_with(Adversary {
        drop_after: 0.2,
        ..Default::default()
    });
    // The enclave logged everything it was handed, so the loss is pinned
    // on the filtering network's egress: only the victim sees it.
    assert_eq!(
        report.victim.verdict,
        vif::core::verify::BypassVerdict::DropDetected
    );
    assert_eq!(
        report.neighbor.verdict,
        vif::core::verify::BypassVerdict::Clean
    );
}

#[test]
fn combined_attacks_are_caught_by_both_verifiers() {
    let report = run_with(Adversary {
        drop_before: 0.1,
        drop_after: 0.1,
        injected: vec![(spoofed(0x0a0a0a0a), 50)],
    });
    assert!(report.victim.bypass_detected());
    assert!(report.neighbor.bypass_detected());
}

#[test]
fn every_offered_packet_is_accounted_for() {
    let report = run_with(Adversary {
        drop_before: 0.25,
        drop_after: 0.25,
        injected: vec![(spoofed(0x0a0b0c0d), 30)],
    });
    let c = report.counters;
    assert_eq!(c.injected, 30);
    assert_eq!(
        c.offered,
        c.dropped_before + c.filtered + c.dropped_after + (c.received_by_victim - c.injected)
    );
}

#[test]
fn filtering_accuracy_is_auditable_not_just_presence() {
    // [Goal 2] of the threat model: the operator must not silently filter
    // *less* than requested to save resources. With connection-preserving
    // 50% drop, the victim can also check the realized drop rate.
    let report = run_with(Adversary::default());
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
    assert!(e.ecall(|app| app.logs_of(0).sketch(LogDirection::Incoming).total()) > 0);
    e.ecall(|app| app.new_round_for(0));
    assert_eq!(
        e.ecall(|app| app.logs_of(0).sketch(LogDirection::Incoming).total()),
        0
    );
    assert_eq!(e.ecall(|app| app.logs_of(0).round()), 1);
}
