//! Integration: the paper's §II-A threat model, attack by attack.
//!
//! [Goal 1] a filtering network discriminating between neighbor ASes, and
//! [Goal 2] a filtering network saving resources by filtering less than
//! requested — plus the §VII misuse concerns (malicious victims) — must
//! all be either impossible by construction or detectable by audit.

use std::sync::Arc;
use vif::core::logs::LogDirection;
use vif::core::prelude::*;
use vif::sgx::{AttestationRootKey, Enclave, EnclaveImage, EpcConfig, SgxPlatform};

const SEED: u64 = 909;
const KEY: [u8; 32] = [19u8; 32];

fn victim_ip() -> u32 {
    u32::from_be_bytes([203, 0, 113, 1])
}

/// The victim's requested rule: drop 50% of HTTP flows (the paper's
/// running example).
fn enclave_with_half_drop() -> Arc<Enclave<FilterEnclaveApp>> {
    let root = AttestationRootKey::new([6u8; 32]);
    let platform = SgxPlatform::new(77, EpcConfig::paper_default(), &root);
    let rules = RuleSet::from_rules(vec![FilterRule::drop_fraction(
        FlowPattern::http_to("203.0.113.0/24".parse().unwrap()),
        0.5,
    )]);
    let app = FilterEnclaveApp::new(rules, [2u8; 32], SEED, KEY);
    Arc::new(platform.launch(EnclaveImage::new("vif", 1, vec![]), app))
}

fn flow_from(neighbor_block: u32, i: u32) -> FiveTuple {
    FiveTuple::new(
        neighbor_block | (i & 0x00ff_ffff),
        victim_ip(),
        (2000 + i % 60_000) as u16,
        80,
        Protocol::Tcp,
    )
}

/// [Goal 1] Discriminating neighbors. The operator cannot make the enclave
/// apply different rules per neighbor (the rule is attested code + state);
/// dropping neighbor A's packets *outside* the enclave is caught by A's
/// incoming-log audit while B's stays clean — pinpointing discrimination.
#[test]
fn goal1_neighbor_discrimination_detected_and_localized() {
    let enclave = enclave_with_half_drop();
    let mut verifier_a = Verifier::new(LogDirection::Incoming, SEED, KEY, 0);
    let mut verifier_b = Verifier::new(LogDirection::Incoming, SEED, KEY, 0);

    for i in 0..400u32 {
        // Neighbor A's traffic: the malicious IXP drops 30% of it before
        // the filter (discrimination against AS A).
        let ta = flow_from(0x0a00_0000, i);
        verifier_a.observe(&ta);
        if i % 10 >= 3 {
            enclave.in_enclave_thread(|app| app.process(&ta, 64));
        }
        // Neighbor B's traffic goes through untouched.
        let tb = flow_from(0x0b00_0000, i);
        verifier_b.observe(&tb);
        enclave.in_enclave_thread(|app| app.process(&tb, 64));
    }

    let incoming = enclave.ecall(|app| app.export_log_for(0, LogDirection::Incoming));
    let report_a = verifier_a.audit(&incoming).unwrap();
    let report_b = verifier_b.audit(&incoming).unwrap();
    assert!(
        report_a.bypass_detected(),
        "discriminated neighbor must see the drop"
    );
    assert!(
        !report_b.bypass_detected(),
        "fairly-treated neighbor must audit clean"
    );
}

/// [Goal 1'] The enclave itself cannot discriminate: identical flows from
/// different neighbors receive verdicts from the same attested rule, and
/// the realized drop rates match across neighbors.
#[test]
fn goal1_enclave_rule_is_neighbor_blind() {
    let enclave = enclave_with_half_drop();
    let mut drops = [0u32; 2];
    for (n, block) in [0x0a00_0000u32, 0x0b00_0000].iter().enumerate() {
        for i in 0..2000u32 {
            let t = flow_from(*block, i * 7);
            let v = enclave.in_enclave_thread(|app| app.process(&t, 64));
            if v.action == vif::core::rules::RuleAction::Drop {
                drops[n] += 1;
            }
        }
    }
    let rate_a = drops[0] as f64 / 2000.0;
    let rate_b = drops[1] as f64 / 2000.0;
    assert!((rate_a - 0.5).abs() < 0.05, "A: {rate_a}");
    assert!((rate_b - 0.5).abs() < 0.05, "B: {rate_b}");
}

/// [Goal 2] Inaccurate filtering to save resources: the operator diverts
/// 80% of the traffic around the filter (accepting it wholesale). The
/// victim sees injected traffic its enclave never logged.
#[test]
fn goal2_resource_saving_bypass_detected() {
    let enclave = enclave_with_half_drop();
    let mut victim = Verifier::new(LogDirection::Outgoing, SEED, KEY, 0);
    for i in 0..1000u32 {
        let t = flow_from(0x0a00_0000, i);
        if i % 5 == 0 {
            // 20% goes through the real filter.
            let v = enclave.in_enclave_thread(|app| app.process(&t, 64));
            if v.action == vif::core::rules::RuleAction::Allow {
                victim.observe(&t);
            }
        } else {
            // 80% skips the filter entirely (free capacity for the IXP).
            victim.observe(&t);
        }
    }
    let outgoing = enclave.ecall(|app| app.export_log_for(0, LogDirection::Outgoing));
    let report = victim.audit(&outgoing).unwrap();
    assert!(report.bypass_detected(), "wholesale bypass must be visible");
}

/// [Goal 2'] The dual: the operator drops traffic wholesale instead of
/// filtering (cheaper than running the filter at capacity).
#[test]
fn goal2_wholesale_drop_detected_by_neighbor() {
    let enclave = enclave_with_half_drop();
    let mut neighbor = Verifier::new(LogDirection::Incoming, SEED, KEY, 0);
    for i in 0..1000u32 {
        let t = flow_from(0x0a00_0000, i);
        neighbor.observe(&t);
        if i % 5 == 0 {
            enclave.in_enclave_thread(|app| app.process(&t, 64));
        } // else: dropped at the IXP edge, never filtered
    }
    let incoming = enclave.ecall(|app| app.export_log_for(0, LogDirection::Incoming));
    assert!(neighbor.audit(&incoming).unwrap().bypass_detected());
}

/// §VII: a malicious victim cannot weaponize VIF against prefixes it does
/// not hold — RPKI refuses the rules before they reach the filter.
#[test]
fn malicious_victim_cannot_filter_third_parties() {
    let mut rpki = RpkiRegistry::new();
    rpki.register("203.0.113.0/24".parse().unwrap(), [1u8; 32]);
    rpki.register("198.51.100.0/24".parse().unwrap(), [2u8; 32]);
    let attacker_identity = [1u8; 32];
    // The attacker (holder of 203.0.113.0/24) tries to black-hole a
    // competitor's prefix.
    let hostile_rules = vec![FilterRule::drop(FlowPattern::prefixes(
        "0.0.0.0/0".parse().unwrap(),
        "198.51.100.0/24".parse().unwrap(),
    ))];
    assert!(rpki.authorize(&attacker_identity, &hostile_rules).is_err());
}

/// Replay resistance: the operator cannot satisfy round N's audit with
/// round N-1's (clean) log export.
#[test]
fn stale_log_replay_rejected() {
    let enclave = enclave_with_half_drop();
    let t = flow_from(0x0a00_0000, 1);
    enclave.in_enclave_thread(|app| app.process(&t, 64));
    let stale = enclave.ecall(|app| app.export_log_for(0, LogDirection::Outgoing));
    enclave.ecall(|app| app.new_round_for(0));

    // Present the round-0 export as if it covered round 1.
    let mut forged = stale.clone();
    forged.round = 1;
    let victim = Verifier::new(LogDirection::Outgoing, SEED, KEY, 0);
    assert!(victim.audit(&forged).is_err(), "replayed export must fail");
}

/// Clock manipulation is powerless: verdicts do not change when the host
/// delays packets or reorders them (arrival-time & injection independence,
/// §III-A).
#[test]
fn timing_and_order_manipulation_is_futile() {
    let enclave = enclave_with_half_drop();
    let flows: Vec<FiveTuple> = (0..300).map(|i| flow_from(0x0a00_0000, i)).collect();
    let forward: Vec<_> = flows
        .iter()
        .map(|t| enclave.in_enclave_thread(|app| app.process(t, 64)).action)
        .collect();
    // "Delay" and interleave adversary-chosen packets, then replay in
    // reverse order: identical verdicts.
    let noise = flow_from(0x0c00_0000, 42);
    let mut reversed: Vec<_> = Vec::new();
    for t in flows.iter().rev() {
        enclave.in_enclave_thread(|app| app.process(&noise, 1500));
        reversed.push(enclave.in_enclave_thread(|app| app.process(t, 64)).action);
    }
    reversed.reverse();
    assert_eq!(forward, reversed);
}
